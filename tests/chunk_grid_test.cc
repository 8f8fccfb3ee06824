#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "chunks/chunk_grid.h"
#include "test_util.h"
#include "workload/apb_schema.h"

namespace aac {
namespace {

TEST(ChunkGrid, NumChunksPerGroupBy) {
  TestCube cube = MakeSmallCube();
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  // product chunks per level: 1, 2, 4; time: 1, 2.
  EXPECT_EQ(grid.NumChunks(lat.IdOf(LevelVector{2, 1})), 8);
  EXPECT_EQ(grid.NumChunks(lat.IdOf(LevelVector{0, 0})), 1);
  EXPECT_EQ(grid.NumChunks(lat.IdOf(LevelVector{1, 1})), 4);
}

TEST(ChunkGrid, TotalChunksIsProductOfPerDimSums) {
  TestCube cube = MakeSmallCube();
  // (1+2+4) * (1+2) = 21.
  EXPECT_EQ(cube.grid->TotalChunksAllGroupBys(), 21);
}

// FlatIndex against a running sum of NumChunks, the layout OracleIndex
// (test_env.h) computes: dense, group-by major, ending at the total.
void ExpectFlatIndexIsRunningSum(const ChunkGrid& grid) {
  const Lattice& lat = grid.lattice();
  int64_t begin = 0;
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      ASSERT_EQ(grid.FlatIndex(gb, c), begin + c) << "gb=" << gb;
    }
    begin += grid.NumChunks(gb);
  }
  EXPECT_EQ(begin, grid.TotalChunksAllGroupBys());
  const GroupById last = lat.num_groupbys() - 1;
  EXPECT_EQ(grid.FlatIndex(last, grid.NumChunks(last) - 1),
            grid.TotalChunksAllGroupBys() - 1);
}

TEST(ChunkGrid, FlatIndexIsDenseAndGroupByMajor) {
  TestCube cube = MakeThreeDimCube();
  ExpectFlatIndexIsRunningSum(*cube.grid);
  const ApbCube apb;
  ExpectFlatIndexIsRunningSum(apb.grid());
}

TEST(ChunkGrid, ChunkIdCoordsRoundTrip) {
  TestCube cube = MakeThreeDimCube();
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      EXPECT_EQ(grid.ChunkIdOf(gb, grid.CoordsOf(gb, c)), c);
    }
  }
}

TEST(ChunkGrid, ChunkOfCellConsistentWithCoords) {
  TestCube cube = MakeSmallCube();
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  const GroupById base = lat.base_id();
  // Cell (product=7, time=5): product chunk 7/3=2, time chunk 5/4=1.
  int32_t values[2] = {7, 5};
  const ChunkId c = grid.ChunkOfCell(base, values);
  const ChunkCoords coords = grid.CoordsOf(base, c);
  EXPECT_EQ(coords[0], 2);
  EXPECT_EQ(coords[1], 1);
}

TEST(ChunkGrid, CellsInChunkSumsToLevelCells) {
  TestCube cube = MakeThreeDimCube();
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    int64_t total = 0;
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      total += grid.CellsInChunk(gb, c);
    }
    EXPECT_EQ(total, cube.schema->NumCells(lat.LevelOf(gb)));
  }
}

// Brute-force oracle for ParentChunkNumbers: a chunk P of `to` is a parent
// of chunk C of `from` iff some cell of `to` inside P maps (via the value
// hierarchy) into C.
std::set<ChunkId> BruteForceParents(const TestCube& cube, GroupById from,
                                    ChunkId chunk, GroupById to) {
  const Schema& schema = *cube.schema;
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  const LevelVector& from_lv = lat.LevelOf(from);
  const LevelVector& to_lv = lat.LevelOf(to);
  const int nd = schema.num_dims();
  std::set<ChunkId> parents;
  std::array<int32_t, kMaxDims> cur{};
  while (true) {
    // Map this `to`-level cell to its `from`-level cell.
    std::array<int32_t, kMaxDims> mapped{};
    for (int d = 0; d < nd; ++d) {
      mapped[static_cast<size_t>(d)] = schema.dimension(d).AncestorValue(
          to_lv[d], cur[static_cast<size_t>(d)], from_lv[d]);
    }
    if (grid.ChunkOfCell(from, mapped.data()) == chunk) {
      parents.insert(grid.ChunkOfCell(to, cur.data()));
    }
    int d = nd - 1;
    while (d >= 0) {
      if (++cur[static_cast<size_t>(d)] <
          schema.dimension(d).cardinality(to_lv[d])) {
        break;
      }
      cur[static_cast<size_t>(d)] = 0;
      --d;
    }
    if (d < 0) break;
  }
  return parents;
}

TEST(ChunkGrid, ParentChunkNumbersMatchesBruteForceOracle) {
  TestCube cube = MakeThreeDimCube();
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  for (GroupById from = 0; from < lat.num_groupbys(); ++from) {
    for (GroupById to = 0; to < lat.num_groupbys(); ++to) {
      if (!lat.IsAncestor(from, to)) continue;
      for (ChunkId c = 0; c < grid.NumChunks(from); ++c) {
        std::vector<ChunkId> got = grid.ParentChunkNumbers(from, c, to);
        std::set<ChunkId> got_set(got.begin(), got.end());
        EXPECT_EQ(got_set.size(), got.size());  // no duplicates
        EXPECT_EQ(got_set, BruteForceParents(cube, from, c, to))
            << "from=" << lat.LevelOf(from).ToString() << " chunk=" << c
            << " to=" << lat.LevelOf(to).ToString();
      }
    }
  }
}

TEST(ChunkGrid, ChildChunkNumberInvertsParentChunkNumbers) {
  TestCube cube = MakeThreeDimCube();
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  for (GroupById from = 0; from < lat.num_groupbys(); ++from) {
    for (GroupById to : lat.Parents(from)) {
      for (ChunkId c = 0; c < grid.NumChunks(from); ++c) {
        for (ChunkId p : grid.ParentChunkNumbers(from, c, to)) {
          EXPECT_EQ(grid.ChildChunkNumber(to, p, from), c);
        }
      }
    }
  }
}

TEST(ChunkGrid, ParentChunkNumbersIdentityWhenSameGroupBy) {
  TestCube cube = MakeSmallCube();
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  const GroupById gb = lat.base_id();
  for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
    std::vector<ChunkId> parents = grid.ParentChunkNumbers(gb, c, gb);
    ASSERT_EQ(parents.size(), 1u);
    EXPECT_EQ(parents[0], c);
  }
}

TEST(ChunkGrid, PaperClosureExample) {
  // Paper Figure 1: chunk 0 of (Time) computed from chunks (0,1,2,3) of
  // (Product, Time). Reproduce the shape with the small cube: the single
  // chunk of (0,0) maps to all chunks of the base group-by.
  TestCube cube = MakeSmallCube();
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  std::vector<ChunkId> parents =
      grid.ParentChunkNumbers(lat.top_id(), 0, lat.base_id());
  EXPECT_EQ(static_cast<int64_t>(parents.size()),
            grid.NumChunks(lat.base_id()));
}

TEST(ChunkGridDeathTest, ParentChunkNumbersRequiresAncestor) {
  TestCube cube = MakeSmallCube();
  const Lattice& lat = *cube.lattice;
  EXPECT_DEATH(
      cube.grid->ParentChunkNumbers(lat.base_id(), 0, lat.top_id()),
      "AAC_CHECK");
}

}  // namespace
}  // namespace aac
