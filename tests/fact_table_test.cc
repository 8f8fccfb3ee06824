#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "storage/fact_table.h"
#include "test_util.h"
#include "util/fnv1a.h"
#include "workload/apb_schema.h"
#include "workload/data_generator.h"

namespace aac {
namespace {

Cell MakeCell(int32_t a, int32_t b, double m) {
  Cell c;
  c.values[0] = a;
  c.values[1] = b;
  c.measure = m;
  return c;
}

TEST(FactTable, ChunkSlicesPartitionTuples) {
  TestCube cube = MakeSmallCube();
  std::vector<Cell> cells = RandomBaseCells(cube, 0.5, 42);
  const size_t n = cells.size();
  FactTable table(cube.grid.get(), std::move(cells));
  EXPECT_EQ(table.num_tuples(), static_cast<int64_t>(n));
  int64_t total = 0;
  for (ChunkId c = 0; c < table.num_chunks(); ++c) {
    total += table.ChunkTupleCount(c);
    EXPECT_EQ(table.ChunkTupleCount(c),
              static_cast<int64_t>(table.ChunkSlice(c).size()));
  }
  EXPECT_EQ(total, table.num_tuples());
}

TEST(FactTable, SliceTuplesBelongToChunk) {
  TestCube cube = MakeThreeDimCube();
  FactTable table(cube.grid.get(), RandomBaseCells(cube, 0.7, 7));
  const GroupById base = table.base_gb();
  for (ChunkId c = 0; c < table.num_chunks(); ++c) {
    for (const Cell& cell : table.ChunkSlice(c)) {
      EXPECT_EQ(cube.grid->ChunkOfCell(base, cell.values.data()), c);
    }
  }
}

TEST(FactTable, DuplicateCellsAreCombined) {
  TestCube cube = MakeSmallCube();
  std::vector<Cell> cells;
  cells.push_back(MakeCell(0, 0, 1.0));
  cells.push_back(MakeCell(0, 0, 2.0));
  cells.push_back(MakeCell(3, 1, 5.0));
  FactTable table(cube.grid.get(), std::move(cells));
  EXPECT_EQ(table.num_tuples(), 2);
  double total = 0;
  for (const Cell& c : table.tuples()) total += c.measure;
  EXPECT_DOUBLE_EQ(total, 8.0);
}

TEST(FactTable, EmptyTable) {
  TestCube cube = MakeSmallCube();
  FactTable table(cube.grid.get(), {});
  EXPECT_EQ(table.num_tuples(), 0);
  for (ChunkId c = 0; c < table.num_chunks(); ++c) {
    EXPECT_EQ(table.ChunkTupleCount(c), 0);
  }
}

TEST(FactTable, MeasureSumPreserved) {
  TestCube cube = MakeThreeDimCube();
  std::vector<Cell> cells = RandomBaseCells(cube, 0.4, 99);
  double expected = 0;
  for (const Cell& c : cells) expected += c.measure;
  FactTable table(cube.grid.get(), std::move(cells));
  double got = 0;
  for (const Cell& c : table.tuples()) got += c.measure;
  EXPECT_NEAR(got, expected, 1e-9);
}

// bench/e2e's data (APB-1, 120k tuples, time-dense, seed 1), pinned: a
// digest of every tuple's value ids and aggregate state in table order, and
// one of every base chunk's offset. The pins come from a build that sorted
// every cell at once rather than chunk by chunk, so they check that both
// orders give the same table.
TEST(FactTable, BenchScaleTablePinned) {
  const ApbCube cube;
  DataGenConfig data;
  data.num_tuples = 120'000;
  data.dense_dim = 2;
  data.seed = 1;
  const FactTable table(&cube.grid(), GenerateFactData(cube.schema(), data));
  uint64_t tuples = kFnv1aOffsetBasis;
  for (const Cell& c : table.tuples()) {
    tuples = Fnv1a(c.values.data(), sizeof(c.values), tuples);
    tuples = Fnv1a(&c.measure, sizeof(c.measure), tuples);
    tuples = Fnv1a(&c.count, sizeof(c.count), tuples);
    tuples = Fnv1a(&c.min, sizeof(c.min), tuples);
    tuples = Fnv1a(&c.max, sizeof(c.max), tuples);
  }
  uint64_t offsets = kFnv1aOffsetBasis;
  for (ChunkId c = 0; c < table.num_chunks(); ++c) {
    const int64_t first = table.ChunkSlice(c).data() - table.tuples().data();
    offsets = Fnv1a(&first, sizeof(first), offsets);
  }
  EXPECT_EQ(table.num_tuples(), 120000);
  EXPECT_EQ(tuples, 0x53d8d98bbfb6601dULL);
  EXPECT_EQ(offsets, 0xd60ac4b725fc05ceULL);
}

// Fact values are range-checked where they enter: a value outside its
// dimension's base cardinality would otherwise index per-value tables out
// of bounds in every later chunk lookup.
TEST(FactTableDeathTest, NegativeValueAborts) {
  TestCube cube = MakeSmallCube();
  EXPECT_DEATH(FactTable(cube.grid.get(), {MakeCell(-1, 0, 1.0)}),
               "AAC_CHECK");
}

TEST(FactTableDeathTest, ValueEqualToCardinalityAborts) {
  TestCube cube = MakeSmallCube();
  const auto time_card =
      static_cast<int32_t>(cube.schema->dimension(1).cardinality(1));
  EXPECT_DEATH(FactTable(cube.grid.get(), {MakeCell(0, time_card, 1.0)}),
               "AAC_CHECK");
}

TEST(FactTableDeathTest, ApplyInsertsChecksValues) {
  TestCube cube = MakeSmallCube();
  FactTable table(cube.grid.get(), {MakeCell(0, 0, 1.0)});
  const auto product_card =
      static_cast<int32_t>(cube.schema->dimension(0).cardinality(2));
  EXPECT_DEATH(table.ApplyInserts({MakeCell(0, -1, 1.0)}), "AAC_CHECK");
  EXPECT_DEATH(table.ApplyInserts({MakeCell(product_card, 0, 1.0)}),
               "AAC_CHECK");
  // The largest valid values still go in.
  table.ApplyInserts({MakeCell(product_card - 1, 0, 2.0)});
  EXPECT_EQ(table.num_tuples(), 2);
}

// --- ApplyInserts merges a batch into the clustered order. ---

// A base cell inside base chunk `chunk`, with an integer measure (sums stay
// exact, so any merge order gives the same doubles).
Cell CellInChunk(const ChunkGrid& grid, ChunkId chunk, Rng& rng) {
  const Schema& schema = grid.schema();
  const GroupById base = grid.lattice().base_id();
  const ChunkCoords coords = grid.CoordsOf(base, chunk);
  Cell c;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const auto [lo, hi] = grid.layout(d).ValueRange(
        schema.base_level()[d], coords[static_cast<size_t>(d)]);
    c.values[static_cast<size_t>(d)] =
        lo + static_cast<int32_t>(rng.Uniform(static_cast<uint64_t>(hi - lo)));
  }
  InitCellAggregates(c, static_cast<double>(rng.Uniform(1000)) + 1.0);
  return c;
}

// A batch that mixes every case the merge handles: random cells, copies of
// cells already in the table, repeats within the batch, cells in empty
// chunks and in the first and last chunk.
std::vector<Cell> MixedBatch(const FactTable& table, Rng& rng) {
  const ChunkGrid& grid = table.grid();
  const int64_t nchunks = table.num_chunks();
  std::vector<Cell> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(CellInChunk(
        grid, static_cast<ChunkId>(rng.Uniform(static_cast<uint64_t>(nchunks))),
        rng));
  }
  for (int i = 0; i < 4 && table.num_tuples() > 0; ++i) {
    Cell c = table.tuples()[static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(table.num_tuples())))];
    InitCellAggregates(c, static_cast<double>(rng.Uniform(1000)) + 1.0);
    batch.push_back(c);
  }
  for (int i = 0; i < 3; ++i) {
    Cell c = batch[static_cast<size_t>(rng.Uniform(batch.size()))];
    InitCellAggregates(c, static_cast<double>(rng.Uniform(1000)) + 1.0);
    batch.push_back(c);
  }
  int empties = 0;
  for (ChunkId c = 0; c < nchunks && empties < 2; ++c) {
    if (table.ChunkTupleCount(c) == 0) {
      batch.push_back(CellInChunk(grid, c, rng));
      ++empties;
    }
  }
  batch.push_back(CellInChunk(grid, 0, rng));
  batch.push_back(CellInChunk(grid, nchunks - 1, rng));
  for (size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[static_cast<size_t>(rng.Uniform(i))]);
  }
  return batch;
}

// Applies each batch in turn and checks the table against one constructed
// (Rebuild) from the union of every cell so far: same tuples in the same
// order with the same aggregate state, the same chunk slices, and the
// batch's distinct base chunks as the returned list.
void ExpectMergeEqualsRebuild(const ChunkGrid& grid, std::vector<Cell> cells,
                              uint64_t seed) {
  FactTable merged(&grid, cells);
  Rng rng(seed);
  const GroupById base = grid.lattice().base_id();
  for (int round = 0; round < 6; ++round) {
    std::vector<Cell> batch;
    if (round != 3) batch = MixedBatch(merged, rng);  // round 3: empty batch
    std::set<ChunkId> chunks;
    for (const Cell& c : batch) {
      chunks.insert(grid.ChunkOfCell(base, c.values.data()));
    }
    const std::vector<ChunkId> affected = merged.ApplyInserts(batch);
    EXPECT_EQ(affected, std::vector<ChunkId>(chunks.begin(), chunks.end()));

    cells.insert(cells.end(), batch.begin(), batch.end());
    const FactTable rebuilt(&grid, cells);
    ASSERT_EQ(merged.num_tuples(), rebuilt.num_tuples()) << "round " << round;
    for (int64_t i = 0; i < merged.num_tuples(); ++i) {
      const Cell& got = merged.tuples()[static_cast<size_t>(i)];
      const Cell& want = rebuilt.tuples()[static_cast<size_t>(i)];
      ASSERT_EQ(got.values, want.values) << "round " << round << " tuple " << i;
      ASSERT_EQ(got.measure, want.measure) << "tuple " << i;
      ASSERT_EQ(got.count, want.count) << "tuple " << i;
      ASSERT_EQ(got.min, want.min) << "tuple " << i;
      ASSERT_EQ(got.max, want.max) << "tuple " << i;
    }
    for (ChunkId c = 0; c < merged.num_chunks(); ++c) {
      ASSERT_EQ(merged.ChunkSlice(c).data() - merged.tuples().data(),
                rebuilt.ChunkSlice(c).data() - rebuilt.tuples().data())
          << "chunk " << c;
      ASSERT_EQ(merged.ChunkTupleCount(c), rebuilt.ChunkTupleCount(c))
          << "chunk " << c;
    }
  }
}

TEST(FactTableMerge, ApbEqualsRebuild) {
  const ApbCube cube;
  DataGenConfig data;
  data.num_tuples = 3000;
  data.dense_dim = 2;
  data.seed = 5;
  ExpectMergeEqualsRebuild(cube.grid(), GenerateFactData(cube.schema(), data),
                           11);
}

TEST(FactTableMerge, ThreeDimCubeEqualsRebuild) {
  TestCube cube = MakeThreeDimCube();
  ExpectMergeEqualsRebuild(*cube.grid, RandomBaseCells(cube, 0.3, 21), 22);
}

TEST(FactTableMerge, RandomCubesEqualRebuild) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    TestCube cube = MakeRandomCube(seed);
    ExpectMergeEqualsRebuild(*cube.grid, RandomBaseCells(cube, 0.4, seed),
                             100 + seed);
  }
}

TEST(FactTableMerge, FromEmptyTableEqualsRebuild) {
  TestCube cube = MakeSmallCube();
  ExpectMergeEqualsRebuild(*cube.grid, {}, 3);
}

}  // namespace
}  // namespace aac
