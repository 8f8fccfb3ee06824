#include <gtest/gtest.h>

#include <vector>

#include "storage/fact_table.h"
#include "test_util.h"

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

}  // namespace
}  // namespace aac
