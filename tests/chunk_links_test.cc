#include <gtest/gtest.h>

#include <vector>

#include "chunks/chunk_links.h"
#include "test_util.h"
#include "workload/apb_schema.h"
#include "workload/web_schema.h"

namespace aac {
namespace {

// Every link equals the grid's own mapping, in order, for every (group-by,
// lattice parent or child, chunk).
void ExpectLinksMatchGrid(const ChunkGrid& grid) {
  const ChunkLinks links(&grid);
  const Lattice& lattice = grid.lattice();
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    const auto& parents = lattice.Parents(gb);
    const auto& children = lattice.Children(gb);
    for (ChunkId chunk = 0; chunk < grid.NumChunks(gb); ++chunk) {
      for (size_t pi = 0; pi < parents.size(); ++pi) {
        const ChunkLinks::ParentRange range = links.ParentChunks(gb, chunk, pi);
        std::vector<ChunkId> got;
        for (int64_t k = 0; k < range.count; ++k) {
          got.push_back(range.first + k * range.stride);
        }
        ASSERT_EQ(got, grid.ParentChunkNumbers(gb, chunk, parents[pi]))
            << lattice.LevelOf(gb).ToString() << "#" << chunk << " -> "
            << lattice.LevelOf(parents[pi]).ToString();
      }
      for (size_t ci = 0; ci < children.size(); ++ci) {
        ASSERT_EQ(links.ChildChunk(gb, chunk, ci),
                  grid.ChildChunkNumber(gb, chunk, children[ci]))
            << lattice.LevelOf(gb).ToString() << "#" << chunk << " -> "
            << lattice.LevelOf(children[ci]).ToString();
      }
    }
  }
}

TEST(ChunkLinks, MatchTheGridOnApb1) {
  ApbCube cube;
  ExpectLinksMatchGrid(cube.grid());
}

TEST(ChunkLinks, MatchTheGridOnTheWebCube) {
  WebCube cube;
  ExpectLinksMatchGrid(cube.grid());
}

// Non-uniform hierarchies and chunks of unequal widths: a chunk's parent
// chunks are not a fixed fan-out apart.
TEST(ChunkLinks, MatchTheGridOnRandomCubes) {
  ExpectLinksMatchGrid(*MakeThreeDimCube().grid);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(seed);
    ExpectLinksMatchGrid(*MakeRandomCube(seed).grid);
  }
}

TEST(ChunkLinks, BytesCoverEveryLink) {
  ApbCube cube;
  const ChunkLinks links(&cube.grid());
  const Lattice& lattice = cube.lattice();
  int64_t parent_links = 0;
  int64_t child_links = 0;
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    const int64_t chunks = cube.grid().NumChunks(gb);
    parent_links += chunks * static_cast<int64_t>(lattice.Parents(gb).size());
    child_links += chunks * static_cast<int64_t>(lattice.Children(gb).size());
  }
  // 8 bytes per parent link (first chunk and count), 4 per child link.
  EXPECT_GE(links.bytes(), parent_links * 8 + child_links * 4);
  EXPECT_LT(links.bytes(), parent_links * 8 + child_links * 4 +
                               128 * int64_t{lattice.num_groupbys()});
}

}  // namespace
}  // namespace aac
