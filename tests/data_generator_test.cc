#include <gtest/gtest.h>

#include "storage/fact_table.h"
#include "workload/apb_schema.h"
#include "workload/data_generator.h"

namespace aac {
namespace {

TEST(DataGenerator, GeneratesRequestedCount) {
  ApbCube cube;
  DataGenConfig config;
  config.num_tuples = 5000;
  std::vector<Cell> cells = GenerateFactData(cube.schema(), config);
  EXPECT_EQ(cells.size(), 5000u);
}

TEST(DataGenerator, DeterministicForSeed) {
  ApbCube cube;
  DataGenConfig config;
  config.num_tuples = 1000;
  config.seed = 9;
  std::vector<Cell> a = GenerateFactData(cube.schema(), config);
  std::vector<Cell> b = GenerateFactData(cube.schema(), config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].values, b[i].values);
    EXPECT_EQ(a[i].measure, b[i].measure);
  }
}

TEST(DataGenerator, DifferentSeedsDiffer) {
  ApbCube cube;
  DataGenConfig config;
  config.num_tuples = 1000;
  config.seed = 1;
  std::vector<Cell> a = GenerateFactData(cube.schema(), config);
  config.seed = 2;
  std::vector<Cell> b = GenerateFactData(cube.schema(), config);
  int same = 0;
  for (size_t i = 0; i < a.size(); ++i) same += (a[i].values == b[i].values);
  EXPECT_LT(same, 100);
}

TEST(DataGenerator, ValuesWithinCardinalities) {
  ApbCube cube;
  DataGenConfig config;
  config.num_tuples = 2000;
  const LevelVector& base = cube.schema().base_level();
  for (const Cell& c : GenerateFactData(cube.schema(), config)) {
    for (int d = 0; d < cube.schema().num_dims(); ++d) {
      EXPECT_GE(c.values[static_cast<size_t>(d)], 0);
      EXPECT_LT(c.values[static_cast<size_t>(d)],
                cube.schema().dimension(d).cardinality(base[d]));
    }
    EXPECT_GE(c.measure, 1.0);
    EXPECT_LE(c.measure, static_cast<double>(kMeasureMax));
  }
}

TEST(DataGenerator, SkewConcentratesOnLowIds) {
  ApbCube cube;
  DataGenConfig config;
  config.num_tuples = 20000;
  config.zipf_theta = 1.0;
  int64_t low = 0, high = 0;
  const int64_t cards = cube.schema().dimension(0).cardinality(6);
  for (const Cell& c : GenerateFactData(cube.schema(), config)) {
    if (c.values[0] < cards / 4) {
      ++low;
    } else if (c.values[0] >= 3 * cards / 4) {
      ++high;
    }
  }
  EXPECT_GT(low, high * 2);
}

TEST(DataGenerator, LoadsIntoFactTable) {
  ApbCube cube;
  DataGenConfig config;
  config.num_tuples = 10000;
  FactTable table(&cube.grid(), GenerateFactData(cube.schema(), config));
  // Duplicate cells merge, so the table is at most the requested size.
  EXPECT_LE(table.num_tuples(), 10000);
  EXPECT_GT(table.num_tuples(), 5000);
  EXPECT_EQ(table.num_chunks(), 2048);
}

}  // namespace
}  // namespace aac
